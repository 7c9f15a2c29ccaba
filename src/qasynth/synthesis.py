"""Synthetic-data strategies (MT, PE, PT), the filtering stack, and assembly.

Three ways to manufacture target-language training data from English gold
data plus unlabeled passages: field-wise machine translation (mt), two-stage
prompted generation through an English bridge (pe), and greedy decoding from
a tuned soft prompt (pt). Generated pe/pt data then passes an extractive
filter (the answer must appear verbatim in the passage and must not appear
in the question) and, for pe by default, a round-trip consistency filter
that re-answers the generated question and keeps the pair only when the new
answer matches the old one under normalization. Translated data is never
filtered, matching the recipe this implements.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .backends import (
    BackendError,
    GenerationBackend,
    GenerationRequest,
    TranslationBackend,
    TranslationRequest,
    run_requests,
)
from .corpus import Dataset, Passage, QAExample, read_jsonl, write_json, write_jsonl
from .metrics import normalize_answer
from .promptkit import (
    ExemplarSet,
    PromptError,
    parse_completion,
    render_answer_prompt,
    render_question_prompt,
    render_roundtrip_prompt,
)
from .tuner import (
    SoftPrompt,
    ToyLM,
    encode_context,
    greedy_decode_batch,
    split_decoded,
)

FILTER_REASONS = (
    "not_substring_of_context",
    "substring_of_question",
    "roundtrip_mismatch",
    "empty_generation",
)

DEFAULT_STOP_SEQUENCES = ("\nPassage:",)
DEFAULT_MAX_TOKENS = 64
DEFAULT_PARALLELISM = 4


class SynthesisError(ValueError):
    """Raised for invalid synthesis inputs or inconsistent assembly."""


@dataclass(frozen=True)
class FilterReport:
    """Bookkeeping for one filtering pass; counts always conserve."""

    input_count: int
    kept_count: int
    dropped: Dict[str, int]
    notes: Tuple[str, ...] = ()

    def __post_init__(self):
        for reason in self.dropped:
            if reason not in FILTER_REASONS:
                raise SynthesisError(f"unknown drop reason {reason!r}")
        if any(v < 0 for v in self.dropped.values()) or self.kept_count < 0:
            raise SynthesisError("filter counts must be >= 0")
        if self.kept_count + sum(self.dropped.values()) != self.input_count:
            raise SynthesisError(
                f"filter counts do not conserve: {self.kept_count} kept + "
                f"{sum(self.dropped.values())} dropped != {self.input_count} input"
            )

    def to_dict(self) -> dict:
        return {
            "input_count": self.input_count,
            "kept_count": self.kept_count,
            "dropped": {k: self.dropped[k] for k in sorted(self.dropped)},
            "notes": list(self.notes),
        }


def merge_reports(first: FilterReport, second: FilterReport) -> FilterReport:
    """Chain two passes: the second pass consumed the first pass's survivors."""
    if second.input_count != first.kept_count:
        raise SynthesisError(
            f"cannot chain reports: second input {second.input_count} != "
            f"first kept {first.kept_count}"
        )
    dropped = dict(first.dropped)
    for reason, count in second.dropped.items():
        dropped[reason] = dropped.get(reason, 0) + count
    return FilterReport(
        input_count=first.input_count,
        kept_count=second.kept_count,
        dropped=dropped,
        notes=first.notes + second.notes,
    )


@dataclass(frozen=True)
class SynthesisRun:
    """Outcome of one synthesis method over a set of languages."""

    method: str
    scenario: str
    languages: Tuple[str, ...]
    raw: Dict[str, Dataset]
    filtered: Dict[str, Dataset]
    reports: Dict[str, FilterReport]
    config_hash: str

    def __post_init__(self):
        if self.method not in ("mt", "pe", "pt"):
            raise SynthesisError(f"unknown method {self.method!r}")
        for lang in self.languages:
            raw_ids = {ex.id for ex in self.raw[lang].examples}
            for ex in self.filtered[lang].examples:
                if ex.id not in raw_ids:
                    raise SynthesisError(
                        f"filtered example {ex.id!r} ({lang}) missing from raw"
                    )


def synth_mt(
    d_en: Dataset,
    translator: TranslationBackend,
    languages: Sequence[str],
    config_hash: str = "",
    parallelism: int = 1,
) -> SynthesisRun:
    """Translate the English dataset field-by-field into each target language.

    context, question, and answer are translated independently, so the
    translated answer generally is not a substring of the translated context;
    answer_start is therefore dropped. No filtering is applied to translated
    data. Target languages exclude English. Every translation of every
    language goes through one run_requests call; the first failure in
    (language, example, field) order aborts the run.
    """
    for ex in d_en.examples:
        if ex.language != "en":
            raise SynthesisError(
                f"example {ex.id!r} is {ex.language!r}; synth_mt needs English input"
            )
    targets = sorted(l for l in languages if l != "en")
    names = ("context", "question", "answer")
    reqs = [
        TranslationRequest(text=getattr(ex, name), source="en", target=lang)
        for lang in targets
        for ex in d_en.examples
        for name in names
    ]
    results = iter(run_requests(translator, reqs, parallelism))
    raw: Dict[str, Dataset] = {}
    for lang in targets:
        examples: List[QAExample] = []
        for ex in d_en.examples:
            fields = {}
            for name in names:
                response, error = next(results)
                if isinstance(error, BackendError):
                    raise BackendError(
                        f"translation of {name!r} failed for example {ex.id!r} "
                        f"({lang}): {error}",
                        retryable=error.retryable,
                    ) from error
                if error is not None:
                    raise error
                fields[name] = response.text
            examples.append(
                QAExample(
                    id=f"mt-{lang}-{ex.id}",
                    context=fields["context"],
                    question=fields["question"],
                    answer=fields["answer"],
                    answer_start=None,
                    language=lang,
                    provenance="mt",
                    source_dataset=d_en.name,
                )
            )
        raw[lang] = Dataset(name=f"mt-{lang}", examples=tuple(examples))
    return SynthesisRun(
        method="mt",
        scenario="english_only",
        languages=tuple(targets),
        raw=raw,
        filtered=dict(raw),
        reports={lang: FilterReport(len(raw[lang]), len(raw[lang]), {}) for lang in targets},
        config_hash=config_hash,
    )


def _render(render, *args) -> Union[str, PromptError]:
    """A rendered prompt's text, or the PromptError that rendering raised."""
    try:
        return render(*args).text
    except PromptError as e:
        return e


def _complete(
    backend: GenerationBackend,
    prompts: Sequence[Union[str, Exception]],
    max_tokens: int,
    stop_sequences: Tuple[str, ...],
    parallelism: int,
) -> List[Union[str, Exception]]:
    """Generate and parse one completion per prompt, in one run_requests call.

    An exception in place of a prompt marks an item that already failed; it
    passes through unchanged. A BackendError or PromptError becomes that
    item's result; any other exception is raised.
    """
    reqs = [
        GenerationRequest(
            prompt=prompt, max_tokens=max_tokens, stop_sequences=stop_sequences
        )
        for prompt in prompts
        if isinstance(prompt, str)
    ]
    results = iter(run_requests(backend, reqs, parallelism))
    out: List[Union[str, Exception]] = []
    for prompt in prompts:
        if not isinstance(prompt, str):
            out.append(prompt)
            continue
        response, error = next(results)
        if error is None:
            try:
                out.append(parse_completion(response.text))
            except PromptError as e:
                out.append(e)
        elif isinstance(error, BackendError):
            out.append(error)
        else:
            raise error
    return out


def synth_pe(
    exemplars_by_language: Mapping[str, ExemplarSet],
    passages_by_language: Mapping[str, Sequence[Passage]],
    backend: GenerationBackend,
    parallelism: int = DEFAULT_PARALLELISM,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    stop_sequences: Tuple[str, ...] = DEFAULT_STOP_SEQUENCES,
    config_hash: str = "",
) -> SynthesisRun:
    """Two-stage prompted generation over unlabeled passages per language.

    Stage one asks for an answer span, stage two asks for the question given
    that answer. Passages whose generation fails at either stage are counted
    as empty_generation in the report (with a note) and skipped. Each stage
    sends the prompts of every language through one run_requests call
    bounded by parallelism; results keep passage order. The output is raw:
    run the filter stack separately.
    """
    if parallelism < 1:
        raise SynthesisError("parallelism must be >= 1")
    languages = sorted(passages_by_language)
    for lang in languages:
        if lang not in exemplars_by_language:
            raise SynthesisError(f"no exemplars for language {lang!r}")
        if exemplars_by_language[lang].language != lang:
            raise SynthesisError(
                f"exemplar set for {lang!r} has language "
                f"{exemplars_by_language[lang].language!r}"
            )
        for p in passages_by_language[lang]:
            if p.language != lang:
                raise SynthesisError(
                    f"passage {p.id!r} is {p.language!r}, listed under {lang!r}"
                )
    scenarios = {exemplars_by_language[l].scenario for l in languages}
    scenario = scenarios.pop() if len(scenarios) == 1 else "few_shot"

    passages = [p for lang in languages for p in passages_by_language[lang]]
    answers = _complete(
        backend,
        [
            _render(render_answer_prompt, exemplars_by_language[p.language], p)
            for p in passages
        ],
        max_tokens,
        stop_sequences,
        parallelism,
    )
    questions = _complete(
        backend,
        [
            answer
            if isinstance(answer, Exception)
            else _render(
                render_question_prompt, exemplars_by_language[p.language], p, answer
            )
            for p, answer in zip(passages, answers)
        ],
        max_tokens,
        stop_sequences,
        parallelism,
    )

    outcomes = [
        question if isinstance(question, Exception) else (answer, question)
        for answer, question in zip(answers, questions)
    ]
    return _fold("pe", scenario, passages_by_language, outcomes, config_hash)


def synth_pt(
    passages_by_language: Mapping[str, Sequence[Passage]],
    model: Optional[ToyLM] = None,
    prompts_by_language: Optional[Mapping[str, SoftPrompt]] = None,
    backend: Optional[GenerationBackend] = None,
    max_tokens: int = 128,
    scenario: str = "english_only",
    config_hash: str = "",
    parallelism: int = 1,
) -> SynthesisRun:
    """Generate QA pairs by greedy decoding from tuned prompts.

    Toy path: pass model + prompts_by_language; each passage is encoded as
    "[l]" BOS passage-bytes and the decoded continuation is split at the
    first SEP into (answer, question). Every language must have a prompt
    before any decoding starts; each language's passages are decoded in one
    greedy_decode_batch call. Remote path: pass backend instead;
    the prompt is "[l] passage" and the completion convention is the answer,
    a newline, then the question. The remote prompts of every language go
    through one run_requests call bounded by parallelism. Either way a
    generation with no separator or an empty side is dropped as
    empty_generation.
    """
    toy = model is not None or prompts_by_language is not None
    if toy and (model is None or prompts_by_language is None):
        raise SynthesisError("toy path needs both model and prompts_by_language")
    if toy == (backend is not None):
        raise SynthesisError(
            "pass either model+prompts_by_language or backend, not both"
        )
    languages = sorted(passages_by_language)
    if toy:
        for lang in languages:
            if lang not in prompts_by_language:
                raise SynthesisError(f"no tuned prompt for language {lang!r}")
        outcomes = [
            split_decoded(tokens)
            for lang in languages
            for tokens in greedy_decode_batch(
                model,
                prompts_by_language[lang],
                [encode_context(p.text, lang) for p in passages_by_language[lang]],
                max_tokens,
            )
        ]
    else:
        reqs = [
            GenerationRequest(prompt=f"[{lang}] {p.text}", max_tokens=max_tokens)
            for lang in languages
            for p in passages_by_language[lang]
        ]
        outcomes = [
            _split_completion(response, error)
            for response, error in run_requests(backend, reqs, parallelism)
        ]
    return _fold("pt", scenario, passages_by_language, outcomes, config_hash)


def _split_completion(response, error):
    """A remote pt completion as an (answer, question) pair, None or a BackendError."""
    if isinstance(error, BackendError):
        return error
    if error is not None:
        raise error
    if "\n" not in response.text:
        return None
    answer, question = response.text.split("\n", 1)
    return answer.strip(), question.strip().split("\n")[0]


def _fold(
    method: str,
    scenario: str,
    passages_by_language: Mapping[str, Sequence[Passage]],
    outcomes: Sequence[Union[Tuple[str, str], Exception, None]],
    config_hash: str,
) -> SynthesisRun:
    """Turn one generation outcome per passage into a raw SynthesisRun.

    outcomes follow sorted-language, then passage order. An (answer,
    question) pair with both sides non-empty becomes an example; anything
    else is dropped as empty_generation, and an exception also leaves the
    note "<passage id>: <error>".
    """
    languages = sorted(passages_by_language)
    outcomes = iter(outcomes)
    raw: Dict[str, Dataset] = {}
    reports: Dict[str, FilterReport] = {}
    for lang in languages:
        examples: List[QAExample] = []
        notes: List[str] = []
        for passage in passages_by_language[lang]:
            outcome = next(outcomes)
            if isinstance(outcome, Exception):
                notes.append(f"{passage.id}: {outcome}")
            if not isinstance(outcome, tuple) or not all(outcome):
                continue
            examples.append(
                QAExample(
                    id=f"{method}-{lang}-{passage.id}",
                    context=passage.text,
                    question=outcome[1],
                    answer=outcome[0],
                    answer_start=None,
                    language=lang,
                    provenance=method,
                    source_dataset=passage.source or "unlabeled",
                )
            )
        raw[lang] = Dataset(name=f"{method}-{lang}", examples=tuple(examples))
        failed = len(passages_by_language[lang]) - len(examples)
        reports[lang] = FilterReport(
            input_count=len(passages_by_language[lang]),
            kept_count=len(examples),
            dropped={"empty_generation": failed} if failed else {},
            notes=tuple(notes),
        )
    return SynthesisRun(
        method=method,
        scenario=scenario,
        languages=tuple(languages),
        raw=raw,
        filtered=dict(raw),
        reports=reports,
        config_hash=config_hash,
    )


def filter_extractive(raw: Dataset) -> Tuple[Dataset, FilterReport]:
    """Keep examples whose answer occurs in the context but not the question.

    Matching is exact Unicode substring containment; kept examples get
    answer_start set to the first occurrence of the answer in the context.
    Example text is never altered.
    """
    kept: List[QAExample] = []
    dropped = {"not_substring_of_context": 0, "substring_of_question": 0}
    for ex in raw.examples:
        if ex.answer not in ex.context:
            dropped["not_substring_of_context"] += 1
            continue
        if ex.answer in ex.question:
            dropped["substring_of_question"] += 1
            continue
        kept.append(
            dataclasses.replace(ex, answer_start=ex.context.index(ex.answer))
        )
    report = FilterReport(
        input_count=len(raw.examples),
        kept_count=len(kept),
        dropped={k: v for k, v in dropped.items() if v},
    )
    return Dataset(name=raw.name, examples=tuple(kept), scenario=raw.scenario), report


def filter_roundtrip(
    examples: Dataset,
    qa_backend: GenerationBackend,
    exemplars: ExemplarSet,
    mode: str = "normalized",
    max_tokens: int = DEFAULT_MAX_TOKENS,
    stop_sequences: Tuple[str, ...] = DEFAULT_STOP_SEQUENCES,
    parallelism: int = 1,
) -> Tuple[Dataset, FilterReport]:
    """Consistency filter: re-answer each generated question and compare.

    The backend sees the answer-prompt template with the question inserted
    into the target block; the example survives iff the re-predicted answer
    matches the original (after normalize_answer in "normalized" mode, raw
    string equality in "raw" mode). Backend failures drop the example as
    roundtrip_mismatch and leave a note. The re-answers go through one
    run_requests call bounded by parallelism.
    """
    if mode not in ("normalized", "raw"):
        raise SynthesisError(f"mode must be 'normalized' or 'raw', got {mode!r}")
    prompts = [
        _render(
            render_roundtrip_prompt,
            exemplars,
            Passage(
                id=ex.id, text=ex.context, language=ex.language, source=ex.source_dataset
            ),
            ex.question,
        )
        for ex in examples.examples
    ]
    predictions = _complete(
        qa_backend, prompts, max_tokens, stop_sequences, parallelism
    )
    kept: List[QAExample] = []
    mismatches = 0
    notes: List[str] = []
    for ex, predicted in zip(examples.examples, predictions):
        if isinstance(predicted, Exception):
            mismatches += 1
            notes.append(f"{ex.id}: {predicted}")
            continue
        if mode == "normalized":
            same = normalize_answer(predicted, ex.language) == normalize_answer(
                ex.answer, ex.language
            )
        else:
            same = predicted == ex.answer
        if same:
            kept.append(ex)
        else:
            mismatches += 1
    report = FilterReport(
        input_count=len(examples.examples),
        kept_count=len(kept),
        dropped={"roundtrip_mismatch": mismatches} if mismatches else {},
        notes=tuple(notes),
    )
    return (
        Dataset(name=examples.name, examples=tuple(kept), scenario=examples.scenario),
        report,
    )


def assemble(
    d_en: Dataset,
    synthetic_by_language: Mapping[str, Dataset],
    name: str = "assembled",
) -> Dataset:
    """Concatenate English gold data with per-language synthetic datasets.

    Order: English first, then languages in sorted code order. Ids are
    re-namespaced as "<source dataset name>/<example id>"; a collision after
    namespacing is an error.
    """
    for lang, ds in synthetic_by_language.items():
        if lang == "en":
            raise SynthesisError("synthetic datasets must not include English")
        for ex in ds.examples:
            if ex.language == "en":
                raise SynthesisError(
                    f"example {ex.id!r} in the {lang!r} set is English"
                )
    examples: List[QAExample] = []
    seen = set()

    def add_all(ds: Dataset):
        for ex in ds.examples:
            new_id = f"{ds.name}/{ex.id}"
            if new_id in seen:
                raise SynthesisError(f"duplicate id after namespacing: {new_id!r}")
            seen.add(new_id)
            examples.append(dataclasses.replace(ex, id=new_id))

    add_all(d_en)
    for lang in sorted(synthetic_by_language):
        add_all(synthetic_by_language[lang])
    return Dataset(name=name, examples=tuple(examples), scenario="few_shot")


def size_sweep(
    assembled: Dataset,
    sizes: Sequence[int],
    seed: int,
) -> Tuple[Dataset, ...]:
    """Nested subsamples of the synthetic (non-English) portion.

    Every output keeps the full English portion; the synthetic portion is a
    seeded random subset of the requested size, and smaller subsets are
    prefixes of larger ones (nesting). Selected examples keep their original
    dataset order.
    """
    if list(sizes) != sorted(sizes):
        raise SynthesisError("sizes must be nondecreasing")
    english = [ex for ex in assembled.examples if ex.language == "en"]
    synthetic = [ex for ex in assembled.examples if ex.language != "en"]
    if sizes and sizes[-1] > len(synthetic):
        raise SynthesisError(
            f"requested {sizes[-1]} synthetic examples; only "
            f"{len(synthetic)} available"
        )
    import random as _random

    order = list(range(len(synthetic)))
    _random.Random(seed).shuffle(order)
    out: List[Dataset] = []
    for size in sizes:
        chosen = sorted(order[:size])
        examples = english + [synthetic[i] for i in chosen]
        out.append(
            Dataset(
                name=f"{assembled.name}-n{size}",
                examples=tuple(examples),
                scenario=assembled.scenario,
            )
        )
    return tuple(out)


def filter_run(
    run: SynthesisRun,
    qa_backend: Optional[GenerationBackend] = None,
    exemplars_by_language: Optional[Mapping[str, ExemplarSet]] = None,
    mode: str = "normalized",
    parallelism: int = 1,
) -> SynthesisRun:
    """Filter each language's raw examples; raw itself is kept as it is.

    filter_extractive always runs; filter_roundtrip follows when qa_backend
    is given, with that language's exemplars. Each pass is chained onto the
    run's report with merge_reports, so a report still accounts for every
    input passage.
    """
    if qa_backend is not None:
        for lang in run.languages:
            if lang not in (exemplars_by_language or {}):
                raise SynthesisError(f"no exemplars for language {lang!r}")
    filtered: Dict[str, Dataset] = {}
    reports: Dict[str, FilterReport] = {}
    for lang in run.languages:
        kept, report = filter_extractive(run.raw[lang])
        reports[lang] = merge_reports(run.reports[lang], report)
        if qa_backend is not None:
            kept, report = filter_roundtrip(
                kept,
                qa_backend,
                exemplars_by_language[lang],
                mode=mode,
                parallelism=parallelism,
            )
            reports[lang] = merge_reports(reports[lang], report)
        filtered[lang] = kept
    return dataclasses.replace(run, filtered=filtered, reports=reports)


def save_run(run: SynthesisRun, outdir: Union[str, Path], config: dict) -> List[str]:
    """Persist a run: per-language raw/filtered JSONL plus report and config.

    report.json's counts are the line counts of the JSONL files beside it.
    Returns the paths written, relative to outdir.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for lang in run.languages:
        (outdir / lang).mkdir(exist_ok=True)
        for part, dataset in (("raw", run.raw[lang]), ("filtered", run.filtered[lang])):
            write_jsonl(dataset, outdir / lang / f"{part}.jsonl")
            written.append(f"{lang}/{part}.jsonl")
    report = {
        "method": run.method,
        "scenario": run.scenario,
        "languages": list(run.languages),
        "config_hash": run.config_hash,
        "reports": {lang: run.reports[lang].to_dict() for lang in run.languages},
        "counts": {
            lang: {
                "raw": len(run.raw[lang]),
                "filtered": len(run.filtered[lang]),
            }
            for lang in run.languages
        },
    }
    write_json(outdir / "report.json", report)
    write_json(outdir / "config.json", config)
    return written + ["report.json", "config.json"]


def load_run(run_dir: Union[str, Path]) -> SynthesisRun:
    """Read a run directory written by save_run.

    A report.json that is not the object save_run writes raises
    SynthesisError naming the file; a bad JSONL line raises CorpusError
    naming the file and line.
    """
    run_dir = Path(run_dir)
    path = run_dir / "report.json"
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        method, languages = doc["method"], tuple(doc["languages"])
        report_docs = {lang: doc["reports"][lang] for lang in languages}

        def read(part: str) -> Dict[str, Dataset]:
            return {
                lang: read_jsonl(run_dir / lang / f"{part}.jsonl", name=f"{method}-{lang}")
                for lang in languages
            }

        return SynthesisRun(
            method=method,
            scenario=doc["scenario"],
            languages=languages,
            raw=read("raw"),
            filtered=read("filtered"),
            reports={
                lang: FilterReport(**{**r, "notes": tuple(r.get("notes", ()))})
                for lang, r in report_docs.items()
            },
            config_hash=doc["config_hash"],
        )
    except KeyError as e:
        raise SynthesisError(f"{path}: missing key {e}") from e
    except (json.JSONDecodeError, TypeError, AttributeError, SynthesisError) as e:
        raise SynthesisError(f"{path}: {e}") from e


def config_hash(config: dict) -> str:
    """Stable 12-hex-digit digest of a JSON-serializable config."""
    blob = json.dumps(config, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
