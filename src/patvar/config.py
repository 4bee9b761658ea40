"""Experiment configuration (a single YAML file, strictly validated) and
dataset ingestion with a seeded stratified holdout split."""

from __future__ import annotations

import csv
import dataclasses
import functools
import os
import random
import types
import typing
import urllib.parse
from dataclasses import dataclass, field, replace

import yaml

from .annotation import Annotator, SynonymLexicon, load_annotations_file, load_synonyms_file
from .errors import ConfigError, ParseError, in_file, read_jsonl, utf8_lines
from .experiment import CONDITIONS, Dataset, ShotSchedule
from .fixtures import FixtureAnnotationProvider, fixture_synonyms
from .gateway import Gateway, HttpBackend, MockBackend
from .generation import separate_multilabel
from .synthesis import LabeledExample, SynthesisConfig

# libyaml's loader when PyYAML was built with it; it gives the same objects.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _config_list(key: str, value, kind: type, normalize=tuple) -> tuple:
    """`normalize(value)` for the list `key` of the config; ConfigError
    `bad <key>: ...` unless `value` is a list (a string or a mapping, which
    iterate as their characters or keys, is not) of `kind` items (a whole
    number is no bool, a string is not blank), at least one of them and
    none repeated."""
    try:
        if not isinstance(value, (list, tuple)):
            raise TypeError("need a list, got " + (
                f"the string {value!r}" if isinstance(value, str) else repr(value)))
        if not all(type(v) is kind and (kind is not str or v.strip()) for v in value):
            raise TypeError(f"need {'non-empty strings' if kind is str else 'whole numbers'}, "
                            f"got {value!r}")
        values = normalize(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key}: {exc}") from None
    if not values:
        raise ConfigError(f"bad {key}: need at least one {key.rpartition('.')[2][:-1]}")
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"bad {key}: {repeated} listed more than once")
    return values


@dataclass(frozen=True)
class DatasetSpec:
    path: str
    format: str = "csv"  # csv | jsonl
    text_field: str = "text"
    label_field: str = "label"
    multi_label: bool = False
    label_delimiter: str = "|"
    holdout_fraction: float = 0.3
    split_seed: int = 0
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.labels is not None:
            object.__setattr__(self, "labels", _config_list("dataset.labels", self.labels, str))
        if self.format not in ("csv", "jsonl"):
            raise ConfigError(f"dataset.format must be csv or jsonl, got {self.format!r}")
        if not self.label_delimiter:
            raise ConfigError("dataset.label_delimiter must not be empty")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError("dataset.holdout_fraction must be in (0, 1)")


@dataclass(frozen=True)
class BackendSettings:
    kind: str = "mock"  # mock | http
    model: str = "mock-model"
    api_base: str | None = None
    api_key: str | None = None
    label_vocab: dict | None = None
    flaw_rate: float = 0.0  # mock only: fraction of template generations made faulty

    def __post_init__(self):
        if self.kind not in ("mock", "http"):
            raise ConfigError(f"backend.kind must be mock or http, got {self.kind!r}")
        if not 0.0 <= self.flaw_rate < 1.0:
            raise ConfigError("backend.flaw_rate must be in [0, 1)")
        vocab = self.label_vocab or {}
        if not all(isinstance(label, str) and isinstance(words, list)
                   and all(isinstance(w, str) and w for w in words)
                   for label, words in vocab.items()):
            raise ConfigError("backend.label_vocab must map each label to a list of non-empty "
                              f"strings, got {self.label_vocab!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """The whole config file; its fields, and those of the section types, are
    the config's keys and defaults."""

    dataset: DatasetSpec
    annotations: str | None = None
    lexicon: str | None = None
    synthesis: SynthesisConfig = field(default_factory=SynthesisConfig)
    conditions: tuple[str, ...] = ("random", "counterfactual")
    shots: tuple[int, ...] = (10, 15, 30, 50, 70, 90, 120)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7)
    backend: BackendSettings = field(default_factory=BackendSettings)
    cache_dir: str = ".patvar-cache"
    output_dir: str = "out"

    def __post_init__(self):
        object.__setattr__(self, "conditions", _config_list("conditions", self.conditions, str))
        object.__setattr__(self, "shots", _config_list(
            "shots", self.shots, int, lambda shots: ShotSchedule(shots).shots))
        object.__setattr__(self, "seeds", _config_list("seeds", self.seeds, int))
        bad = [c for c in self.conditions if c not in CONDITIONS]
        if bad:
            raise ConfigError(f"unknown conditions {bad}; valid: {list(CONDITIONS)}")


@functools.cache
def _keys(cls) -> dict[str, type | tuple[type, ...] | None]:
    """Each field of `cls`, with its type when that is a section dataclass,
    or the classes its value may have when it is a plain class or an
    optional one (an int is a float too); None leaves a generic type such as
    `tuple[int, ...]` to the section's own checks."""
    hints, keys = typing.get_type_hints(cls), {}
    for name in (f.name for f in dataclasses.fields(cls)):
        hint = hints[name]
        members = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
        if dataclasses.is_dataclass(hint):
            keys[name] = hint
        elif all(isinstance(m, type) and not typing.get_args(m) for m in members):
            keys[name] = members + ((int,) if float in members else ())
        else:
            keys[name] = None
    return keys


def _section(cls, name: str, raw):
    """`cls(**raw)`, its sections built the same way; an unknown key, a
    section that is not a mapping, a value of the wrong class, or a value the
    section rejects is a ConfigError naming the section."""
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name} must be a mapping")
    keys = _keys(cls)
    unknown = raw.keys() - keys
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {sorted(unknown)}")
    built = {}
    for key, value in raw.items():
        expected = keys[key]
        if isinstance(expected, tuple) and (
            not isinstance(value, expected) or isinstance(value, bool) and bool not in expected
        ):
            names = " or ".join("null" if t is type(None) else t.__name__ for t in expected)
            raise ConfigError(f"bad {name} section: {key} must be {names}, got {value!r}")
        built[key] = _section(expected, key, value) if isinstance(expected, type) else value
    try:
        return cls(**built)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} section: {exc}") from None


def load_config(path) -> ExperimentConfig:
    """Parse and validate the experiment YAML. `LLM_MODEL` replaces `backend.model`;
    `LLM_API_BASE` and `LLM_API_KEY` only fill in an `api_base` or `api_key` that
    is missing or null.
    Relative paths are taken from the config file's directory."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = "".join(utf8_lines(fh, path))
        raw = yaml.load(text, Loader=_YAML_LOADER) or {}
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    cfg = _section(ExperimentConfig, "config", raw)
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if p is None or os.path.isabs(p) else os.path.join(base, p)

    def or_env(value, name):
        return os.environ.get(name) if value is None else value

    cfg = replace(
        cfg,
        dataset=replace(cfg.dataset, path=resolve(cfg.dataset.path)),
        annotations=resolve(cfg.annotations),
        lexicon=resolve(cfg.lexicon),
        backend=replace(cfg.backend, model=os.environ.get("LLM_MODEL") or cfg.backend.model,
                        api_base=or_env(cfg.backend.api_base, "LLM_API_BASE"),
                        api_key=or_env(cfg.backend.api_key, "LLM_API_KEY")),
        cache_dir=resolve(cfg.cache_dir),
        output_dir=resolve(cfg.output_dir),
    )
    for key, p in (("dataset.path", cfg.dataset.path),
                   ("annotations", cfg.annotations),
                   ("lexicon", cfg.lexicon)):
        if p is not None and not os.path.isfile(p):
            problem = "is not a file" if os.path.exists(p) else "does not exist"
            raise ConfigError(f"{key} {problem}: {p}")
    return cfg


def build_provider(cfg: ExperimentConfig) -> Annotator:
    """The command's annotator: the `annotations:` file's sentences, and the
    fixture's annotation of any other text."""
    sentences = ()
    if cfg.annotations is not None:
        with in_file(cfg.annotations):
            sentences = load_annotations_file(cfg.annotations)
    return Annotator(FixtureAnnotationProvider(), sentences)


def build_lexicon(cfg: ExperimentConfig) -> SynonymLexicon:
    if cfg.lexicon is None:
        return fixture_synonyms()
    with in_file(cfg.lexicon):
        return load_synonyms_file(cfg.lexicon)


def build_gateway(cfg: ExperimentConfig) -> Gateway:
    if cfg.backend.kind == "mock":
        backend = MockBackend(label_vocab=cfg.backend.label_vocab, flaw_rate=cfg.backend.flaw_rate)
    else:
        try:
            url = urllib.parse.urlsplit(cfg.backend.api_base or "")
            valid = url.scheme in ("http", "https") and bool(url.hostname) and url.port != 0
        except ValueError:  # a malformed IPv6 host, or a port that is no number in 0-65535
            valid = False
        if not valid:
            raise ConfigError("backend.kind=http requires backend.api_base (or LLM_API_BASE), "
                              f"an http or https URL with a host; got {cfg.backend.api_base!r}")
        backend = HttpBackend(cfg.backend.api_base, cfg.backend.api_key)
    return Gateway(backend=backend, model=cfg.backend.model, cache_dir=cfg.cache_dir)


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def _labels(value, spec: DatasetSpec, lineno: int) -> list[str]:
    """A row's labels: a list (JSONL, under `multi_label` only) or one value,
    which `multi_label` splits at the delimiter. After splitting they must be
    a non-empty list of non-empty strings with no lone surrogate, each in
    `labels` when the spec declares them; ParseError naming the line if not."""
    if isinstance(value, list) and not spec.multi_label:
        raise ParseError(f"field {spec.label_field!r} is a list; that needs multi_label: true",
                         line=lineno)
    values = value if isinstance(value, list) else [value]
    if None in values:
        raise ParseError(f"field {spec.label_field!r} holds a null label", line=lineno)
    labels = [str(v) for v in values]
    if spec.multi_label and len(labels) == 1:
        labels = [l.strip() for l in labels[0].split(spec.label_delimiter)]
    if not labels or not all(l.strip() for l in labels):
        raise ParseError(f"field {spec.label_field!r} holds an empty label", line=lineno)
    for label in labels:
        _encodable(label, spec.label_field, lineno)
    unknown = [l for l in labels if spec.labels and l not in spec.labels]
    if unknown:
        raise ParseError(f"label {unknown[0]!r} is not in dataset.labels", line=lineno)
    return labels


def _text(value: str, spec: DatasetSpec, lineno: int) -> str:
    """A row's text; ParseError naming the line if it is empty or blank or
    holds a lone surrogate."""
    if not value.strip():
        raise ParseError(f"field {spec.text_field!r} is blank", line=lineno)
    _encodable(value, spec.text_field, lineno)
    return value


def _encodable(value: str, name: str, lineno: int) -> None:
    """ParseError naming the line if `value` holds a lone surrogate, which a
    JSON escape can give but no UTF-8 output file can hold."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ParseError(f"field {name!r} holds a lone surrogate, {value[exc.start]!r}",
                         line=lineno) from None


def _read_rows(spec: DatasetSpec) -> list[tuple[str, list[str]]]:
    rows: list[tuple[str, list[str]]] = []
    if spec.format == "csv":
        with open(spec.path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(utf8_lines(fh, spec.path))
            for row in reader:
                lineno = reader.line_num  # the line the row ends on, past skipped blank lines
                if spec.text_field not in row or row[spec.text_field] is None:
                    raise ParseError(f"missing field {spec.text_field!r}", line=lineno)
                if spec.label_field not in row or not (row[spec.label_field] or "").strip():
                    raise ParseError(f"missing field {spec.label_field!r}", line=lineno)
                rows.append((_text(row[spec.text_field], spec, lineno),
                             _labels(row[spec.label_field].strip(), spec, lineno)))
    else:
        for lineno, record in read_jsonl(spec.path):
            fields = {spec.text_field, spec.label_field}
            if not isinstance(record, dict) or not fields <= record.keys():
                raise ParseError(
                    f"record needs fields {spec.text_field!r} and {spec.label_field!r}",
                    line=lineno,
                )
            if record[spec.text_field] is None:
                raise ParseError(f"field {spec.text_field!r} is null", line=lineno)
            rows.append((_text(str(record[spec.text_field]), spec, lineno),
                         _labels(record[spec.label_field], spec, lineno)))
    return rows


def _stratified_split(
    examples: list[LabeledExample], fraction: float, seed: int, label_set: tuple[str, ...]
) -> tuple[list[LabeledExample], list[LabeledExample]]:
    """Largest-remainder allocation: holdout size exact, per-label within 1."""
    rng = random.Random(seed)
    target_total = round(fraction * len(examples))
    by_label = {label: [] for label in label_set}
    for ex in examples:
        by_label[ex.label].append(ex)
    quotas = {}
    remainders = []
    for label in label_set:
        exact = fraction * len(by_label[label])
        quotas[label] = int(exact)
        remainders.append((-(exact - int(exact)), label))
    shortfall = target_total - sum(quotas.values())
    for _, label in sorted(remainders):
        if shortfall <= 0:
            break
        if quotas[label] < len(by_label[label]):
            quotas[label] += 1
            shortfall -= 1
    holdout, pool = [], []
    for label in label_set:
        members = by_label[label][:]
        rng.shuffle(members)
        holdout.extend(members[: quotas[label]])
        pool.extend(members[quotas[label]:])
    order = {ex.sentence.id: i for i, ex in enumerate(examples)}
    pool.sort(key=lambda ex: order[ex.sentence.id])
    holdout.sort(key=lambda ex: order[ex.sentence.id])
    return pool, holdout


def ingest(spec: DatasetSpec, provider: Annotator, gateway: Gateway | None = None) -> Dataset:
    """Parse, validate, annotate, and split a dataset file.

    A multi-label dataset needs the gateway: its multi-labeled rows are
    separated into single-labeled parts (ids `rNNNNN#k`) before the holdout
    split.
    """
    if spec.multi_label and gateway is None:
        raise ValueError("a multi-label dataset needs a gateway to separate its rows")
    rows = _read_rows(spec)
    if not rows:
        raise ConfigError(f"no rows in {spec.path}")
    label_set = tuple(dict.fromkeys([*(spec.labels or ()), *(l for _, ls in rows for l in ls)]))
    by_lower: dict[str, str] = {}
    for label in label_set:
        if by_lower.setdefault(label.lower(), label) != label:
            raise ConfigError(f"{spec.path}: the labels {by_lower[label.lower()]!r} and {label!r} "
                              "differ only in case")
    examples: list[LabeledExample] = []
    for i, (text, labels) in enumerate(rows):
        if len(labels) > 1:
            parts = separate_multilabel(text, [""] * len(labels), labels, gateway)
            rows_of = [(f"r{i:05d}#{k}", part_text, part_label)
                       for k, (part_text, _pattern, part_label) in enumerate(parts)]
        else:
            rows_of = [(f"r{i:05d}", text, labels[0])]
        for row_id, row_text, label in rows_of:
            examples.append(LabeledExample(provider.annotate(row_text).with_id(row_id), label))
    pool, holdout = _stratified_split(examples, spec.holdout_fraction, spec.split_seed, label_set)
    return Dataset(tuple(pool), label_set, tuple(holdout))
