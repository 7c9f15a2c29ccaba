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
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .backends import Backend, BackendError, GenerationRequest, run_requests
from .corpus import (
    SCENARIOS,
    Dataset,
    Passage,
    QAExample,
    config_hash,
    is_language_code,
    read_jsonl,
    write_json,
    write_jsonl,
)
from .metrics import normalize_answer
from .promptkit import (
    STOP_SEQUENCES,
    ExemplarSet,
    PromptError,
    parse_completion,
    parse_pt_completion,
    render_answer_prompt,
    render_pt_prompt,
    render_question_prompt,
    render_roundtrip_prompt,
    translate_fields,
)

# tuner (with numpy) is imported inside synth_pt's toy path, the only one
# that decodes from a tuned prompt.
if TYPE_CHECKING:
    from .tuner import SoftPrompt, ToyLM

FILTER_REASONS = (
    "not_substring_of_context",
    "substring_of_question",
    "roundtrip_mismatch",
    "empty_generation",
)

# The request sizes of pe's two stages and the round trip, then of pt.
MAX_TOKENS = 64
PT_MAX_TOKENS = 128


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
    """Outcome of one synthesis method over a set of languages.

    raw[lang] and filtered[lang] hold only lang's examples, and filtered ones
    are also raw; a breach names the file save_run writes the set to.
    """

    method: str
    scenario: str
    languages: Tuple[str, ...]
    raw: Dict[str, Dataset]
    filtered: Dict[str, Dataset]
    reports: Dict[str, FilterReport]

    def __post_init__(self):
        for lang in self.languages:
            raw_ids = {ex.id for ex in self.raw[lang].examples}
            for part in ("raw", "filtered"):
                for ex in getattr(self, part)[lang].examples:
                    if ex.language != lang:
                        raise SynthesisError(
                            f"{lang}/{part}.jsonl: example {ex.id!r} is "
                            f"{ex.language!r}, not {lang!r}"
                        )
                    if ex.id not in raw_ids:
                        raise SynthesisError(
                            f"{lang}/filtered.jsonl: example {ex.id!r} is missing "
                            f"from {lang}/raw.jsonl"
                        )


def synth_mt(
    d_en: Dataset,
    translator: Backend,
    languages: Sequence[str],
) -> SynthesisRun:
    """Translate the English dataset field-by-field into each target language.

    context, question, and answer are translated independently, so the
    translated answer generally is not a substring of the translated context;
    answer_start is therefore dropped. No filtering is applied to translated
    data. The targets are the distinct languages other than English. Every
    translation of every language goes through one run_requests call
    (promptkit.translate_fields); the first failure in (language, example,
    field) order aborts the run. Each translated context is a passage whose
    outcome is the translated (answer, question), folded like pe and pt.
    """
    for ex in d_en.examples:
        if ex.language != "en":
            raise SynthesisError(
                f"example {ex.id!r} is {ex.language!r}; synth_mt needs English input"
            )
    targets = sorted(set(languages) - {"en"})
    translated = translate_fields(
        translator, d_en.examples, ("context", "question", "answer"), "en", targets
    )
    contexts = {
        lang: [
            Passage(id=ex.id, text=fields["context"], language=lang, source=d_en.name)
            for ex, fields in zip(d_en.examples, per_example)
        ]
        for lang, per_example in zip(targets, translated)
    }
    outcomes = [
        (fields["answer"], fields["question"])
        for per_example in translated
        for fields in per_example
    ]
    return _fold("mt", "english_only", contexts, outcomes)


def _complete(
    backend: Backend,
    prompts: Sequence[Union[str, Exception]],
) -> List[Union[str, Exception]]:
    """Generate and parse one completion per prompt, in one run_requests call.

    An exception in place of a prompt marks an item that already failed; it
    passes through unchanged. The BackendError run_requests reports for an
    item, or the PromptError parsing its completion raises, becomes that
    item's result.
    """
    reqs = [
        GenerationRequest(
            prompt=prompt, max_tokens=MAX_TOKENS, stop_sequences=STOP_SEQUENCES
        )
        for prompt in prompts
        if isinstance(prompt, str)
    ]
    results = iter(run_requests(backend, reqs))
    out: List[Union[str, Exception]] = []
    for prompt in prompts:
        if not isinstance(prompt, str):
            out.append(prompt)
            continue
        text = next(results)
        try:
            out.append(text if isinstance(text, BackendError) else parse_completion(text))
        except PromptError as e:
            out.append(e)
    return out


def _check_exemplars(
    exemplars_by_language: Mapping[str, ExemplarSet], languages: Sequence[str]
) -> None:
    """Raise SynthesisError unless each language has a set in that language."""
    for lang in languages:
        if lang not in exemplars_by_language:
            raise SynthesisError(f"no exemplars for language {lang!r}")
        if exemplars_by_language[lang].language != lang:
            raise SynthesisError(
                f"exemplar set for {lang!r} has language "
                f"{exemplars_by_language[lang].language!r}"
            )


def _check_passages(passages_by_language: Mapping[str, Sequence[Passage]]) -> None:
    """Raise SynthesisError unless each passage is listed under its own language."""
    for lang in sorted(passages_by_language):
        for p in passages_by_language[lang]:
            if p.language != lang:
                raise SynthesisError(
                    f"passage {p.id!r} is {p.language!r}, listed under {lang!r}"
                )


def synth_pe(
    exemplars_by_language: Mapping[str, ExemplarSet],
    passages_by_language: Mapping[str, Sequence[Passage]],
    backend: Backend,
) -> SynthesisRun:
    """Two-stage prompted generation over unlabeled passages per language.

    Stage one asks for an answer span, stage two asks for the question given
    that answer. Passages whose generation fails at either stage are counted
    as empty_generation in the report (with a note) and skipped. Each stage
    sends the prompts of every language through one run_requests call;
    results keep passage order. The output is raw: run the filter stack
    separately.
    """
    languages = sorted(passages_by_language)
    _check_exemplars(exemplars_by_language, languages)
    _check_passages(passages_by_language)
    scenarios = {exemplars_by_language[l].scenario for l in languages}
    scenario = scenarios.pop() if len(scenarios) == 1 else "few_shot"

    passages = [p for lang in languages for p in passages_by_language[lang]]
    answers = _complete(
        backend,
        [render_answer_prompt(exemplars_by_language[p.language], p) for p in passages],
    )
    questions = _complete(
        backend,
        [
            answer
            if isinstance(answer, Exception)
            else render_question_prompt(exemplars_by_language[p.language], p, answer)
            for p, answer in zip(passages, answers)
        ],
    )

    outcomes = [
        question if isinstance(question, Exception) else (answer, question)
        for answer, question in zip(answers, questions)
    ]
    return _fold("pe", scenario, passages_by_language, outcomes)


def synth_pt(
    passages_by_language: Mapping[str, Sequence[Passage]],
    model: Optional[ToyLM] = None,
    prompts_by_language: Optional[Mapping[str, SoftPrompt]] = None,
    backend: Optional[Backend] = None,
    scenario: str = "english_only",
) -> SynthesisRun:
    """Generate QA pairs by greedy decoding from tuned prompts.

    Toy path: pass model + prompts_by_language; each passage is encoded as
    "[l]" BOS passage-bytes and the decoded continuation is split at the
    first SEP into (answer, question). Every language must have a prompt
    before any decoding starts; each language's passages are decoded in one
    greedy_decode_batch call. Remote path: pass backend instead;
    promptkit renders each prompt (render_pt_prompt) and reads each
    completion (parse_pt_completion). The remote prompts of every language
    go through one run_requests call. Either way a generation with no
    separator or an empty side is dropped as empty_generation.
    """
    toy = model is not None or prompts_by_language is not None
    if toy and (model is None or prompts_by_language is None):
        raise SynthesisError("toy path needs both model and prompts_by_language")
    if toy == (backend is not None):
        raise SynthesisError(
            "pass either model+prompts_by_language or backend, not both"
        )
    _check_passages(passages_by_language)
    languages = sorted(passages_by_language)
    if toy:
        from .tuner import encode_context, greedy_decode_batch, split_decoded

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
                PT_MAX_TOKENS,
            )
        ]
    else:
        reqs = [
            GenerationRequest(prompt=render_pt_prompt(p), max_tokens=PT_MAX_TOKENS)
            for lang in languages
            for p in passages_by_language[lang]
        ]
        outcomes = [
            text if isinstance(text, BackendError) else parse_pt_completion(text)
            for text in run_requests(backend, reqs)
        ]
    return _fold("pt", scenario, passages_by_language, outcomes)


def _fold(
    method: str,
    scenario: str,
    passages_by_language: Mapping[str, Sequence[Passage]],
    outcomes: Sequence[Union[Tuple[str, str], Exception, None]],
) -> SynthesisRun:
    """Turn one generation outcome per passage into a raw SynthesisRun.

    A passage is the context an outcome was generated from or translated
    into, and an example's source_dataset is its passage's source
    ("unlabeled" if empty). outcomes follow sorted-language, then passage
    order. An (answer, question) pair with both sides non-empty becomes an
    example; anything else is dropped as empty_generation, and an exception
    also leaves the note "<passage id>: <error>".
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
    return Dataset(name=raw.name, examples=tuple(kept)), report


def filter_roundtrip(
    examples: Dataset,
    qa_backend: Backend,
    exemplars: ExemplarSet,
    mode: str = "normalized",
) -> Tuple[Dataset, FilterReport]:
    """Consistency filter: re-answer each generated question and compare.

    The backend sees the answer-prompt template with the question inserted
    into the target block; the example survives iff the re-predicted answer
    matches the original (after normalize_answer in "normalized" mode, raw
    string equality in "raw" mode). Backend failures drop the example as
    roundtrip_mismatch and leave a note. The re-answers go through one
    run_requests call.
    """
    if mode not in ("normalized", "raw"):
        raise SynthesisError(f"mode must be 'normalized' or 'raw', got {mode!r}")
    prompts = [
        render_roundtrip_prompt(
            exemplars,
            Passage(
                id=ex.id, text=ex.context, language=ex.language, source=ex.source_dataset
            ),
            ex.question,
        )
        for ex in examples.examples
    ]
    predictions = _complete(qa_backend, prompts)
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
    return Dataset(name=examples.name, examples=tuple(kept)), report


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
    return Dataset(name=name, examples=tuple(examples))


def size_sweep(
    assembled: Dataset,
    sizes: Sequence[int],
    seed: int,
) -> Tuple[Dataset, ...]:
    """Nested subsamples of the synthetic (non-English) portion.

    sizes must be increasing. Every output keeps the full English portion;
    the synthetic portion is a seeded random subset of the requested size,
    and smaller subsets are prefixes of larger ones (nesting). Selected
    examples keep their original dataset order. Every error message starts
    with "sizes".
    """
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise SynthesisError(f"sizes must be increasing, got {list(sizes)}")
    if sizes and sizes[0] < 0:
        raise SynthesisError(f"sizes must be >= 0, got {sizes[0]}")
    english = [ex for ex in assembled.examples if ex.language == "en"]
    synthetic = [ex for ex in assembled.examples if ex.language != "en"]
    if sizes and sizes[-1] > len(synthetic):
        raise SynthesisError(
            f"sizes ask for {sizes[-1]} synthetic examples; only "
            f"{len(synthetic)} are available"
        )
    import random as _random

    order = list(range(len(synthetic)))
    _random.Random(seed).shuffle(order)
    out: List[Dataset] = []
    for size in sizes:
        chosen = sorted(order[:size])
        examples = english + [synthetic[i] for i in chosen]
        out.append(Dataset(name=f"{assembled.name}-n{size}", examples=tuple(examples)))
    return tuple(out)


def filter_run(
    run: SynthesisRun,
    qa_backend: Optional[Backend] = None,
    exemplars_by_language: Optional[Mapping[str, ExemplarSet]] = None,
    mode: str = "normalized",
) -> SynthesisRun:
    """Filter each language's filtered examples again; raw is kept as it is.

    A fresh run's filtered examples are its raw ones, and a run that was
    already filtered is filtered further. filter_extractive always runs;
    filter_roundtrip follows when qa_backend is given, with that language's
    exemplars; a missing set, or one in another language, raises
    SynthesisError before any call. Each pass is chained onto the run's
    report with merge_reports, so a report still accounts for every input
    passage. Translated (mt) runs are never filtered, so they raise
    SynthesisError.
    """
    if run.method == "mt":
        raise SynthesisError("translated (mt) runs are never filtered")
    if qa_backend is not None:
        _check_exemplars(exemplars_by_language or {}, run.languages)
    filtered: Dict[str, Dataset] = {}
    reports: Dict[str, FilterReport] = {}
    for lang in run.languages:
        kept, report = filter_extractive(run.filtered[lang])
        reports[lang] = merge_reports(run.reports[lang], report)
        if qa_backend is not None:
            kept, report = filter_roundtrip(
                kept, qa_backend, exemplars_by_language[lang], mode=mode
            )
            reports[lang] = merge_reports(reports[lang], report)
        filtered[lang] = kept
    return dataclasses.replace(run, filtered=filtered, reports=reports)


def save_run(run: SynthesisRun, outdir: Union[str, Path], config: dict) -> List[str]:
    """Persist a run: per-language raw/filtered JSONL plus report and config.

    report.json's counts are the line counts of the JSONL files beside it,
    and its config_hash is the hash of config. Returns the paths written,
    relative to outdir.
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
        "config_hash": config_hash(config),
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
    SynthesisError naming the file, and so does a JSONL file holding an
    example of another language; a bad JSONL line raises CorpusError
    naming the file and line.
    """
    run_dir = Path(run_dir)
    path = run_dir / "report.json"
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        method, scenario, languages = doc["method"], doc["scenario"], doc["languages"]
        if method not in ("mt", "pe", "pt"):
            raise SynthesisError(f"unknown method {method!r}")
        if scenario not in SCENARIOS:
            raise SynthesisError(f"unknown scenario {scenario!r}, expected one of {SCENARIOS}")
        if not isinstance(languages, list) or not all(map(is_language_code, languages)):
            raise SynthesisError(f"languages must be a list of language codes, got {languages!r}")
        languages = tuple(languages)
        report_docs = {lang: doc["reports"][lang] for lang in languages}
        reports = {
            lang: FilterReport(**{**r, "notes": tuple(r.get("notes", ()))})
            for lang, r in report_docs.items()
        }
    except KeyError as e:
        raise SynthesisError(f"{path}: missing key {e}") from e
    except (UnicodeDecodeError, json.JSONDecodeError, TypeError, AttributeError,
            SynthesisError) as e:
        raise SynthesisError(f"{path}: {e}") from e

    def read(part: str) -> Dict[str, Dataset]:
        return {
            lang: read_jsonl(run_dir / lang / f"{part}.jsonl", name=f"{method}-{lang}")
            for lang in languages
        }

    try:
        return SynthesisRun(method, scenario, languages, read("raw"), read("filtered"), reports)
    except SynthesisError as e:
        # Its message starts with the dataset's file, relative to run_dir.
        raise SynthesisError(f"{run_dir}/{e}") from e
